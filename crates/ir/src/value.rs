//! Runtime values manipulated by IR programs.

use std::sync::Arc;

use crate::exception::ExcValue;

/// A dynamically typed runtime value.
///
/// The IR is untyped at the statement level; the interpreter coerces values
/// where a specific type is required (e.g. a boolean condition) and treats
/// ill-typed operations as interpreter errors rather than silent wrap-around.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The unit value, also used as the "absent" sentinel (e.g. popping an
    /// empty queue).
    Unit,
    /// A 64-bit signed integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// An immutable interned string.
    Str(Arc<str>),
    /// A list, used both as a sequence and as a tuple for message payloads.
    List(Vec<Value>),
    /// A handle to a pending asynchronous task result.
    Future(u64),
    /// A first-class exception value (as caught and rethrown by handlers).
    Exc(Arc<ExcValue>),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }

    /// Returns the value as a boolean, or `None` if it is not one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the value as an integer, or `None` if it is not one.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns `true` if the value is an empty list or string (`false`
    /// for every other value).
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }

    /// Returns the length of a list or string, or `None` for other values.
    pub fn len(&self) -> Option<i64> {
        match self {
            Value::List(v) => Some(v.len() as i64),
            Value::Str(s) => Some(s.len() as i64),
            _ => None,
        }
    }

    /// Overwrites `self` with `value`, releasing what `self` held.
    ///
    /// The simulator's slots (locals, globals, registers) hold an int, a
    /// bool or unit most of the time; overwriting one of those has nothing
    /// to release, so the store skips the drop glue a plain assignment
    /// calls out of line.
    #[inline]
    pub fn store(&mut self, value: Value) {
        match self {
            Value::Unit | Value::Int(_) | Value::Bool(_) | Value::Future(_) => {
                std::mem::forget(std::mem::replace(self, value))
            }
            Value::Str(_) | Value::List(_) | Value::Exc(_) => *self = value,
        }
    }

    /// Renders the value for inclusion in a log message.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the rendering of the value to `out` without any intermediate
    /// allocation. `render` is defined in terms of this, so both produce
    /// byte-identical text.
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Value::Unit => out.push_str("()"),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Str(s) => out.push_str(s),
            Value::List(v) => {
                out.push('[');
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Future(id) => {
                let _ = write!(out, "future#{id}");
            }
            Value::Exc(e) => out.push_str(&e.render()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_human_readable() {
        assert_eq!(Value::Int(42).render(), "42");
        assert_eq!(Value::str("x").render(), "x");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Bool(true)]).render(),
            "[1, true]"
        );
        assert_eq!(Value::Unit.render(), "()");
    }

    /// Three words, the tag in a niche of the first: what the simulator's
    /// stores and its register-to-slot rule (DESIGN.md §12) are sized for.
    #[test]
    fn a_value_is_three_words() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(3).as_bool(), None);
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::List(vec![Value::Unit]).len(), Some(1));
    }

    /// The scalar-aware store forgets only what owns nothing: a string or
    /// a list it overwrites is released, one it writes is kept.
    #[test]
    fn store_releases_what_it_overwrites() {
        let s: Arc<str> = Arc::from("held");
        let mut slot = Value::Str(s.clone());
        assert_eq!(Arc::strong_count(&s), 2);
        slot.store(Value::Int(1));
        assert_eq!(slot, Value::Int(1));
        assert_eq!(Arc::strong_count(&s), 1, "Int over Str releases the Str");

        slot.store(Value::Str(s.clone()));
        assert_eq!(slot, Value::Str(s.clone()));
        assert_eq!(Arc::strong_count(&s), 2, "Str over Int keeps the Str");

        slot.store(Value::List(vec![Value::Str(s.clone()), Value::Unit]));
        assert_eq!(Arc::strong_count(&s), 2, "List over Str: one out, one in");
        slot.store(Value::Unit);
        assert_eq!(
            Arc::strong_count(&s),
            1,
            "Unit over List releases the items"
        );
        for scalar in [Value::Bool(true), Value::Future(3), Value::Unit] {
            slot.store(scalar.clone());
            assert_eq!(slot, scalar);
        }
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(7i64), Value::Int(7));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("hi"), Value::str("hi"));
    }
}
